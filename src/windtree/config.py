"""Pipeline configuration: one JSON file, some fields overridable by flags.

Defaults reproduce the published pipeline: 300 slopes from 1.4140 in steps
of 0.0025, recurrence window between the 500th and 1000th collision, and a
3-state model fitted for 15 EM iterations. The rest of the fit is fixed in
`hmm`: the starting transition diagonal (GAMMA_DIAG), the residuals (each
observation conditioned on all the others) and their HIST_BINS bins. The
dataclass fields are the config keys and their types: a key they do not
name, such as a removed one, or a value of another type is a ConfigError.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
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


def config_from_doc(doc: dict) -> PipelineConfig:
    """Build a config from a (possibly partial) JSON document."""
    try:
        return _build(PipelineConfig, doc, "")
    except ValueError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


_field_types = functools.cache(typing.get_type_hints)  # evaluating them is slow


def _build(cls, doc, prefix: str):
    """An instance of the dataclass `cls` from the JSON object `doc`, each
    value checked against its field's type; `prefix` names the block."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config document'} must be a JSON object")
    types = _field_types(cls)
    if unknown := set(doc) - set(types):
        raise ConfigError(f"unknown config fields: {sorted(prefix + k for k in unknown)}")
    values = {}
    for key, value in doc.items():
        kind, name = types[key], prefix + key
        if is_dataclass(kind):
            values[key] = _build(kind, value, name + ".")
        # bool is an int to Python but not a number to a config
        elif isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ConfigError(f"{name} must be of type {kind.__name__}, got {json.dumps(value)}")
        elif kind is float:
            values[key] = _finite_float(value, name)
        else:
            values[key] = value
    return cls(**values)


def _finite_float(value, name: str) -> float:
    """`value` as a float; ConfigError for JSON's NaN and +-Infinity and for
    an integer beyond the float range."""
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be within the float range") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {json.dumps(value)}")
    return number


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or an integer of more digits than int() reads
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_doc(doc)


def apply_overrides(config: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Fold command-line flags, a {field path: value} mapping such as
    {"hmm.m": 4}, over a loaded config."""
    doc = asdict(config)
    for path, value in overrides.items():
        *blocks, key = path.split(".")
        node = doc
        for block in blocks:
            node = node[block]
        node[key] = value
    return config_from_doc(doc)
