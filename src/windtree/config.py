"""Pipeline configuration: one JSON file, every field overridable by a flag.

Defaults reproduce the published pipeline: 300 slopes from 1.4140 in steps
of 0.0025, recurrence window between the 500th and 1000th collision, and a
3-state model fitted for 15 EM iterations. The rest of the fit is fixed in
`hmm`: the starting transition diagonal (GAMMA_DIAG), the residuals (each
observation conditioned on all the others) and their HIST_BINS bins. A key
the dataclasses do not name, such as a removed one, is a ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .sweep import SweepSpec


class ConfigError(ValueError):
    """Unusable configuration file or flag combination."""


@dataclass(frozen=True)
class HmmConfig:
    m: int = 3
    max_iters: int = 15

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("hmm.m must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("hmm.max_iters must be >= 1")


@dataclass(frozen=True)
class SimulateConfig:
    slope: float = 1.414
    n_collisions: int = 500

    def __post_init__(self):
        if self.n_collisions < 0:
            raise ConfigError("simulate.n_collisions must be >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    sweep: SweepSpec = field(default_factory=SweepSpec)
    hmm: HmmConfig = field(default_factory=HmmConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    output_dir: str = "out"
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def to_doc(self) -> dict:
        return asdict(self)


def config_from_doc(doc: dict) -> PipelineConfig:
    """Build a config from a (possibly partial) JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    known = {"sweep", "hmm", "simulate", "output_dir", "jobs"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        return PipelineConfig(
            sweep=SweepSpec(**doc.get("sweep", {})),
            hmm=HmmConfig(**doc.get("hmm", {})),
            simulate=SimulateConfig(**doc.get("simulate", {})),
            output_dir=doc.get("output_dir", "out"),
            jobs=int(doc.get("jobs", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_doc(doc)


def apply_overrides(config: PipelineConfig, *, out=None, jobs=None, slope=None,
                    collisions=None, states=None, iters=None) -> PipelineConfig:
    """Fold command-line flags over a loaded config."""
    doc = config.to_doc()
    if out is not None:
        doc["output_dir"] = out
    if jobs is not None:
        doc["jobs"] = jobs
    if slope is not None:
        doc["simulate"]["slope"] = slope
    if collisions is not None:
        doc["simulate"]["n_collisions"] = collisions
    if states is not None:
        doc["hmm"]["m"] = states
    if iters is not None:
        doc["hmm"]["max_iters"] = iters
    return config_from_doc(doc)
