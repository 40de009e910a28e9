"""Flat JSON run configuration: sections scenario/predictor/geometry/solver/metrics/sweep.

Every tunable default of the library appears here under a named key so a
single resolved document reproduces a run exactly. Unknown keys are
rejected by name.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError

SCHEMES = ("exact", "heuristic", "go", "cpto")
EXPERIMENTS = ("CpuCapacity", "Deadline", "UserCount", "Runtime")


@dataclass(frozen=True)
class ScenarioSection:
    region_w: float = 200.0
    region_h: float = 200.0
    lanes_per_direction: int = 2
    lane_width: float = 3.5
    max_speed_kmh: float = 40.0
    duration_s: float = 60.0
    delta_s: float = 1.0
    arc_radius_m: float = 8.0
    n_vehicles: int = 40
    turn_probs: tuple = (1 / 3, 1 / 3, 1 / 3)
    spawn_window_frac: float = 1 / 3
    speed_frac: tuple = (0.7, 1.0)
    turn_speed_frac: float = 0.5
    slow_margin_m: float = 4.0
    heading_settle_slots: float = 3.0
    spawn_jitter_m: float = 5.0
    # perception task and infrastructure parameters
    workload_cycles: float = 2e8
    frame_bits: float = 2e5
    deadline_s: float = 0.4
    rate_mbps: tuple = (15.0, 18.0)
    n_workers: int = 8
    worker_base_cpu_ghz: float = 2.0
    worker_cpu_step_ghz: float = 1.0
    comm_range_m: float = 200.0


@dataclass(frozen=True)
class PredictorSection:
    p0_diag: tuple = (1.0, 1.0, 10.0, 10.0)
    q_diag: tuple = (0.01, 0.01, 0.1, 0.1)
    r_diag: tuple = (0.25, 0.25)
    theta_turn_deg: float = 15.0
    warmup_slots: int = 3
    roi_height_m: float = 10.0
    measurement_noise_std: float = 0.0
    coast_slots: int = 3


@dataclass(frozen=True)
class GeometrySection:
    cell_size_m: float = 1.0
    pair_mode: str = "sum"  # or "max" / "mean"
    fov_range_m: float = 20.0
    fov_half_angle_deg: float = 30.0


@dataclass(frozen=True)
class SolverSection:
    scheme: str = "heuristic"
    node_budget: int = 2_000_000
    alpha: float = 0.3
    max_iters: int = 500
    patience: int = 100
    regen_alpha_each_iter: bool = False
    memory_capacity: int = 100_000
    strict_deadline: bool = True
    latency_weights: bool = False
    go_worker_order: str = "nearest"


@dataclass(frozen=True)
class MetricsSection:
    phi: float = 0.35
    assigned_only: bool = False


@dataclass(frozen=True)
class SweepSection:
    experiment: Optional[str] = None  # None means a plain single run
    grid: tuple = ()
    seeds: tuple = (0,)
    schemes: tuple = SCHEMES


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    scenario: ScenarioSection = field(default_factory=ScenarioSection)
    predictor: PredictorSection = field(default_factory=PredictorSection)
    geometry: GeometrySection = field(default_factory=GeometrySection)
    solver: SolverSection = field(default_factory=SolverSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    sweep: SweepSection = field(default_factory=SweepSection)


_SECTIONS = {
    "scenario": ScenarioSection,
    "predictor": PredictorSection,
    "geometry": GeometrySection,
    "solver": SolverSection,
    "metrics": MetricsSection,
    "sweep": SweepSection,
}


def _build_section(cls, data: dict, path: str):
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {path}.{key}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in section {path}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    kwargs = {}
    for key, value in doc.items():
        if key == "seed":
            kwargs["seed"] = int(value)
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key} must be an object")
            kwargs[key] = _build_section(_SECTIONS[key], value, key)
        else:
            raise ConfigError(f"unknown key {key}")
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.solver.scheme not in SCHEMES:
        raise ConfigError(
            f"unknown scheme {cfg.solver.scheme!r} for key solver.scheme "
            f"(expected one of {', '.join(SCHEMES)})")
    if cfg.sweep.experiment is not None and cfg.sweep.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.sweep.experiment!r} for key sweep.experiment "
            f"(expected one of {', '.join(EXPERIMENTS)})")
    for s in cfg.sweep.schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r} in sweep.schemes")
    if not 0.0 <= cfg.metrics.phi <= 1.0:
        raise ConfigError("metrics.phi must lie in [0, 1]")
    _validate_predictor(cfg.predictor)
    _validate_geometry(cfg.geometry)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _validate_predictor(p: PredictorSection) -> None:
    for key, length in (("p0_diag", 4), ("q_diag", 4), ("r_diag", 2)):
        diag = getattr(p, key)
        if not (isinstance(diag, tuple) and len(diag) == length
                and all(_is_number(v) and v >= 0 for v in diag)):
            raise ConfigError(f"predictor.{key} must be {length} finite numbers >= 0, "
                              f"got {diag!r}")
    if not (_is_number(p.roi_height_m) and p.roi_height_m > 0):
        raise ConfigError(f"predictor.roi_height_m must be > 0, got {p.roi_height_m!r}")
    if not (_is_number(p.measurement_noise_std) and p.measurement_noise_std >= 0):
        raise ConfigError("predictor.measurement_noise_std must be a finite number >= 0, "
                          f"got {p.measurement_noise_std!r}")
    for key, low in (("warmup_slots", 1), ("coast_slots", 0)):
        value = getattr(p, key)
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
            raise ConfigError(f"predictor.{key} must be an integer >= {low}, got {value!r}")


def _validate_geometry(g: GeometrySection) -> None:
    if g.pair_mode not in ("sum", "max", "mean"):
        raise ConfigError(f"unknown pair mode {g.pair_mode!r} for key geometry.pair_mode")
    for key in ("cell_size_m", "fov_range_m"):
        value = getattr(g, key)
        if not (_is_number(value) and value > 0):
            raise ConfigError(f"geometry.{key} must be a finite number > 0, got {value!r}")
    # at 90 degrees the sensor triangle's base is infinitely wide
    if not (_is_number(g.fov_half_angle_deg) and 0 < g.fov_half_angle_deg < 90):
        raise ConfigError("geometry.fov_half_angle_deg must lie in (0, 90), "
                          f"got {g.fov_half_angle_deg!r}")


def config_to_dict(cfg: RunConfig) -> dict:
    doc: dict = {"seed": cfg.seed}
    for name, _cls in _SECTIONS.items():
        section = getattr(cfg, name)
        doc[name] = {f.name: _jsonable(getattr(section, f.name))
                     for f in fields(section)}
    return doc


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
