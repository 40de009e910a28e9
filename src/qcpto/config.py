"""Flat JSON run configuration: sections scenario/predictor/geometry/solver/metrics/sweep.

Every tunable default of the library appears here under a named key so a
single resolved document reproduces a run exactly. Unknown keys are
rejected by name, and every value is type- and range-checked at load, so a
bad value fails here naming its key instead of mid-run.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .errors import ConfigError
from .geometry import GridSpec
from .predict import SINGULAR_DET
from .trace import check_routes

SCHEMES = ("exact", "heuristic", "go", "cpto")
# the scenario key each sweep experiment sets to its grid values
EXPERIMENT_KEYS = {"CpuCapacity": "worker_base_cpu_ghz", "Deadline": "deadline_s",
                   "UserCount": "n_vehicles", "Runtime": "n_vehicles"}
EXPERIMENTS = tuple(EXPERIMENT_KEYS)


@dataclass(frozen=True)
class ScenarioSection:
    # the synthetic four-way intersection (trace.synth_intersection)
    region_w: float = 200.0
    region_h: float = 200.0
    lanes_per_direction: int = 2
    lane_width: float = 3.5
    max_speed_kmh: float = 40.0
    duration_s: float = 60.0
    delta_s: float = 1.0  # slot length, also the predictor's time step
    arc_radius_m: float = 8.0
    n_vehicles: int = 40
    turn_probs: tuple = (1 / 3, 1 / 3, 1 / 3)  # left, right, straight
    spawn_window_frac: float = 1 / 3
    speed_frac: tuple = (0.7, 1.0)
    turn_speed_frac: float = 0.5  # cruise fraction while negotiating the arc
    slow_margin_m: float = 4.0    # slow zone extends this far beyond the arc
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
    measurement_noise_std: float = 0.0  # optional additive noise, off by default
    coast_slots: int = 3  # slots a filter coasts unmeasured before it is dropped


@dataclass(frozen=True)
class GeometrySection:
    cell_size_m: float = 1.0
    fov_range_m: float = 20.0
    fov_half_angle_deg: float = 30.0


@dataclass(frozen=True)
class SolverSection:
    scheme: str = "heuristic"
    node_budget: int = 2_000_000
    # heuristic search
    alpha: float = 0.3      # fraction of assigned users dropped per perturbation
    max_iters: int = 500
    patience: int = 100     # iterations without improvement before stopping
                            # (the search also stops once the best solution
                            # realizes every pair)


@dataclass(frozen=True)
class MetricsSection:
    phi: float = 0.35


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
    return cls(**kwargs)


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    kwargs = {}
    for key, value in doc.items():
        if key == "seed":
            kwargs["seed"] = value
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
    _require(_is_int(cfg.seed, 0), "seed", "an integer >= 0", cfg.seed)
    _check_scenario(cfg.scenario)
    _check_predictor(cfg.predictor)
    _check_geometry(cfg.geometry, cfg.scenario)
    _check_solver(cfg.solver)
    _require(_is_number(cfg.metrics.phi) and 0.0 <= cfg.metrics.phi <= 1.0,
             "metrics.phi", "a number in [0, 1]", cfg.metrics.phi)
    _check_sweep(cfg.sweep, cfg.scenario)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{key} must be {rule}, got {value!r}")


_SCENARIO_POSITIVE = ("region_w", "region_h", "lane_width", "max_speed_kmh",
                      "duration_s", "delta_s", "arc_radius_m", "turn_speed_frac",
                      "workload_cycles", "frame_bits", "deadline_s",
                      "worker_base_cpu_ghz", "comm_range_m")
_SCENARIO_NON_NEGATIVE = ("spawn_window_frac", "slow_margin_m", "heading_settle_slots",
                          "spawn_jitter_m", "worker_cpu_step_ghz")


def _check_scenario(s: ScenarioSection) -> None:
    for key in _SCENARIO_POSITIVE:
        value = getattr(s, key)
        _require(_is_number(value) and value > 0, f"scenario.{key}",
                 "a finite number > 0", value)
    for key in _SCENARIO_NON_NEGATIVE:
        value = getattr(s, key)
        _require(_is_number(value) and value >= 0, f"scenario.{key}",
                 "a finite number >= 0", value)
    for key, low in (("n_vehicles", 0), ("lanes_per_direction", 1), ("n_workers", 1)):
        value = getattr(s, key)
        _require(_is_int(value, low), f"scenario.{key}", f"an integer >= {low}", value)
    for key in ("rate_mbps", "speed_frac"):
        pair = getattr(s, key)
        _require(isinstance(pair, tuple) and len(pair) == 2
                 and all(_is_number(v) for v in pair) and 0 < pair[0] <= pair[1],
                 f"scenario.{key}", "two finite numbers lo, hi with 0 < lo <= hi", pair)
    # the largest capacity floor(kappa * C / l) and uplink time lambda / R that
    # QmkpInstance.from_task derives, in its order of operations
    cpu_max = s.worker_base_cpu_ghz * 1e9 + s.worker_cpu_step_ghz * 1e9 * 3
    if not math.isfinite(s.deadline_s * cpu_max / s.workload_cycles):
        raise ConfigError(
            f"scenario.deadline_s {s.deadline_s!r} x the largest worker CPU {cpu_max!r} "
            "cycles/s (scenario.worker_base_cpu_ghz + 3 x scenario.worker_cpu_step_ghz) / "
            f"scenario.workload_cycles {s.workload_cycles!r} must be a finite capacity")
    lo, hi = s.rate_mbps  # draw_rates draws R uniformly from [lo, hi) * 1e6 bits/s
    _require(math.isfinite(s.frame_bits / (lo * 1e6)) and math.isfinite(hi * 1e6 - lo * 1e6),
             "scenario.rate_mbps", "lo, hi such that (hi - lo) * 1e6 and the uplink time "
             f"scenario.frame_bits ({s.frame_bits!r}) / (lo * 1e6) are finite", s.rate_mbps)
    probs = s.turn_probs
    _require(isinstance(probs, tuple) and len(probs) == 3
             and all(_is_number(p) and p >= 0 for p in probs) and sum(probs) > 0,
             "scenario.turn_probs", "3 finite numbers >= 0, not all zero", probs)
    # the trace has round(duration / delta) slots, and a half rounds to zero
    _require(s.duration_s / s.delta_s > 0.5, "scenario.delta_s",
             f"less than twice scenario.duration_s ({s.duration_s!r})", s.delta_s)
    try:  # every turn's arc must fit between the region boundary and its lane
        check_routes(s)
    except ConfigError as exc:
        raise ConfigError(
            f"scenario.arc_radius_m {s.arc_radius_m!r} with {s.lanes_per_direction} "
            f"lanes of {s.lane_width!r} m does not fit the {s.region_w!r} x "
            f"{s.region_h!r} m region: {exc}") from exc


def _check_predictor(p: PredictorSection) -> None:
    for key, length in (("p0_diag", 4), ("q_diag", 4), ("r_diag", 2)):
        diag = getattr(p, key)
        _require(isinstance(diag, tuple) and len(diag) == length
                 and all(_is_number(v) and v >= 0 for v in diag),
                 f"predictor.{key}", f"{length} finite numbers >= 0", diag)
    # det S >= det(H Q H^T + R) for every filter history (Minkowski), so this
    # keeps each measurement update clear of the singular-innovation check
    (qx, qy, _, _), (rx, ry) = p.q_diag, p.r_diag
    _require((qx + rx) * (qy + ry) >= SINGULAR_DET, "predictor.r_diag",
             f"such that (q_x + r_x) * (q_y + r_y) >= {SINGULAR_DET:g} with q_diag "
             f"{p.q_diag!r}", p.r_diag)
    _require(_is_number(p.roi_height_m) and p.roi_height_m > 0,
             "predictor.roi_height_m", "a finite number > 0", p.roi_height_m)
    for key in ("measurement_noise_std", "theta_turn_deg"):
        value = getattr(p, key)
        _require(_is_number(value) and value >= 0, f"predictor.{key}",
                 "a finite number >= 0", value)
    for key, low in (("warmup_slots", 1), ("coast_slots", 0)):
        value = getattr(p, key)
        _require(_is_int(value, low), f"predictor.{key}", f"an integer >= {low}", value)


def _check_geometry(g: GeometrySection, s: ScenarioSection) -> None:
    for key in ("cell_size_m", "fov_range_m"):
        value = getattr(g, key)
        _require(_is_number(value) and value > 0, f"geometry.{key}",
                 "a finite number > 0", value)
    # at 90 degrees the sensor triangle's base is infinitely wide
    _require(_is_number(g.fov_half_angle_deg) and 0 < g.fov_half_angle_deg < 90,
             "geometry.fov_half_angle_deg", "a number in (0, 90)", g.fov_half_angle_deg)
    try:  # the grid the pipeline builds must hold at least one cell each way
        GridSpec.for_region(s.region_w, s.region_h, g.cell_size_m)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(
            f"geometry.cell_size_m {g.cell_size_m!r} does not fit the "
            f"{s.region_w!r} x {s.region_h!r} m region: {exc}") from exc


def _check_solver(s: SolverSection) -> None:
    if s.scheme not in SCHEMES:
        raise ConfigError(
            f"unknown scheme {s.scheme!r} for key solver.scheme "
            f"(expected one of {', '.join(SCHEMES)})")
    _require(_is_number(s.alpha) and 0 < s.alpha < 1, "solver.alpha",
             "a number in (0, 1)", s.alpha)
    for key, low in (("node_budget", 1), ("max_iters", 0), ("patience", 1)):
        value = getattr(s, key)
        _require(_is_int(value, low), f"solver.{key}", f"an integer >= {low}", value)


def _check_sweep(w: SweepSection, s: ScenarioSection) -> None:
    if w.experiment is not None and w.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {w.experiment!r} for key sweep.experiment "
            f"(expected one of {', '.join(EXPERIMENTS)})")
    _require(isinstance(w.schemes, tuple) and all(x in SCHEMES for x in w.schemes),
             "sweep.schemes", f"a list of schemes from {', '.join(SCHEMES)}", w.schemes)
    _require(isinstance(w.seeds, tuple) and all(_is_int(x, 0) for x in w.seeds),
             "sweep.seeds", "a list of integers >= 0", w.seeds)
    _require(isinstance(w.grid, tuple), "sweep.grid", "a list", w.grid)
    if w.experiment is None:
        return
    key = EXPERIMENT_KEYS[w.experiment]
    for value in w.grid:
        try:
            _check_scenario(replace(s, **{key: value}))
        except ConfigError as exc:
            raise ConfigError(f"sweep.grid value {value!r} for {w.experiment}: {exc}") from exc


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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


def sweep_threads() -> int:
    """Sweep processes from QCPTO_THREADS; unset or empty means 1."""
    raw = os.environ.get("QCPTO_THREADS", "")
    ok = raw == "" or (raw.strip().isdecimal() and int(raw) >= 1)
    _require(ok, "QCPTO_THREADS", "an integer >= 1", raw)
    return int(raw or "1")
